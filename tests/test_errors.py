import pickle

import pytest

from fescycle import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# constructor arguments of the subclasses whose __init__ is not Exception's
SPECIAL_ARGS = {
    errors.NonPositiveParameter: ("dt_control", 0.0),
    errors.Unreachable: (1.0, "d"),
}


@pytest.mark.parametrize("cls", list(_subclasses(errors.DomainError)),
                         ids=lambda cls: cls.__name__)
def test_domain_error_survives_pickle(cls):
    """A drive run in a worker process sends its error back pickled."""
    exc = cls(*SPECIAL_ARGS.get(cls, ("some message",)))
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is cls
    assert str(clone) == str(exc)
    assert clone.args == exc.args
    assert vars(clone) == vars(exc)

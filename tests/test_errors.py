"""Every package error survives pickling, as it must to come back from a
forked worker: same class, message and attributes."""

import inspect
import pickle

import numpy as np
import pytest

from pseudoweight import errors

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PseudoweightError)
]


def instances(cls):
    if cls is errors.ValidationError:
        return [cls(["a bad", "b bad"]), cls([])]
    if cls is errors.NonConvergenceError:
        return [
            cls("no convergence", score_norm=0.5, iterations=7, coefficients=np.array([1.0, -2.0])),
            cls("bracket"),
        ]
    return [cls("something failed")]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    for error in instances(cls):
        back = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
        assert type(back) is cls
        assert str(back) == str(error)
        for name in ("violations", "score_norm", "iterations", "coefficients"):
            assert repr(getattr(back, name, None)) == repr(getattr(error, name, None))

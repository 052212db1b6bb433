"""The calling convention of loginv and qgroup: a RootContext fixes N and
the precision, so every function that evaluates at xi takes one required
ctx and reads N from it."""

import inspect

import pytest

from logjones import loginv, qgroup


def own_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__]


@pytest.mark.parametrize("module", [loginv, qgroup], ids=lambda m: m.__name__)
def test_ctx_carries_N(module):
    both, defaulted = [], []
    for name, fn in own_functions(module):
        params = inspect.signature(fn).parameters
        if "ctx" not in params:
            continue
        if "N" in params:
            both.append(name)
        if params["ctx"].default is not inspect.Parameter.empty:
            defaulted.append(name)
    assert not both, f"take both ctx and N: {both}"
    assert not defaulted, f"give ctx a default: {defaulted}"


"""Shared fixtures: an in-process CLI runner and a call spy."""

import contextlib
import io
import sys

import pytest

from wreathcount.cli import main


@pytest.fixture
def run_cli():
    def run(*argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, calls) records the first argument of every call to owner.name.

    A module function is replaced under every wreathcount name bound to it.
    On a class, a method records its instance and a classmethod the first
    argument after the class.
    """
    def install(owner, name, calls):
        if isinstance(owner, type):
            attr = vars(owner)[name]
            func = getattr(attr, "__func__", attr)  # a classmethod's function takes cls first

            def spy_attr(first, *args, **kwargs):
                calls.append(args[0] if func is not attr else first)
                return func(first, *args, **kwargs)

            monkeypatch.setattr(owner, name,
                                classmethod(spy_attr) if func is not attr else spy_attr)
            return
        original = getattr(owner, name)

        def spy_call(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "wreathcount":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, spy_call)

    return install

import pytest

from switchyard import cocyclic as cc
from switchyard import slither as sl


@pytest.fixture
def member_checks(monkeypatch):
    """A list that grows by one per membership check run in the chart modules.

    Every check `require_member` runs tests the rotation relations, and
    `i2_inverse` checks its fresh output with `_require_recorded` instead, so
    wrapping `check_diamond` where `cocyclic` and `slither` look it up, and
    `_require_recorded`, counts the checks that are run, not the ones
    `require_member` reuses.
    """
    calls = []
    for mod, name in ((cc, "check_diamond"), (sl, "check_diamond"), (cc, "_require_recorded")):
        if hasattr(mod, name):
            real = getattr(mod, name)

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls

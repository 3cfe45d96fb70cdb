import pytest

from switchyard import cocyclic as cc
from switchyard import slither as sl


@pytest.fixture
def member_checks(monkeypatch):
    """A list that grows by one per membership check run in the chart modules.

    Every check starts with the rotation relations, so wrapping
    `check_diamond` where `cocyclic` and `slither` look it up counts the checks
    that are run, not the ones `require_member` reuses.
    """
    calls = []
    for mod in (cc, sl):
        if hasattr(mod, "check_diamond"):
            real = mod.check_diamond

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, "check_diamond", counted)
    return calls

import pytest

from switchyard import cocyclic as cc


@pytest.fixture
def member_checks(monkeypatch):
    """A list that grows by one per membership check run in the chart modules.

    Every check `require_member` runs tests the rotation relations, and
    `i2_inverse` checks its fresh output with `_require_recorded` instead, so
    wrapping `check_diamond` where `cocyclic` looks it up, and
    `_require_recorded`, counts the checks that are run, not the ones
    `require_member` reuses.  A name missing from `cocyclic` fails the fixture.
    """
    calls = []
    for name in ("check_diamond", "_require_recorded"):
        real = getattr(cc, name)

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cc, name, counted)
    return calls

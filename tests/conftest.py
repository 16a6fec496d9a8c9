import pytest


@pytest.fixture
def recorded(monkeypatch):
    """recorded(*targets) patches each (owner, name) of targets to append (name, *args)
    to one list on every call, still running the original, and returns that list."""
    def record(*targets) -> list:
        calls = []
        for owner, name in targets:
            monkeypatch.setattr(owner, name, lambda *args, n=name, f=getattr(owner, name), **kw:
                                calls.append((n, *args)) or f(*args, **kw))
        return calls
    return record

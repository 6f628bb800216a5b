import pytest

import etmpc.qp


@pytest.fixture
def ldl_numeric_calls(monkeypatch):
    """List that grows by one per numeric LDL factorization the solver starts."""
    calls = []
    real = etmpc.qp.ldl_numeric

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(etmpc.qp, "ldl_numeric", counted)
    return calls

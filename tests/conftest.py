import pytest

import etmpc.ldl
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


@pytest.fixture
def factor_conversions(monkeypatch):
    """List that grows by one per conversion of a factor's operands, once
    per ADMM solve or for one factor solve given none."""
    calls = []
    real = etmpc.ldl.LdlFactor.operands

    def counted(factor):
        calls.append(1)
        return real(factor)

    monkeypatch.setattr(etmpc.ldl.LdlFactor, "operands", counted)
    return calls

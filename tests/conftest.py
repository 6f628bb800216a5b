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
    """List that grows by one per conversion of a factor's operands, in a
    ``converted`` block or for one solve outside one."""
    calls = []
    real = etmpc.ldl.LdlFactor._convert

    def counted(factor):
        calls.append(1)
        return real(factor)

    monkeypatch.setattr(etmpc.ldl.LdlFactor, "_convert", counted)
    return calls

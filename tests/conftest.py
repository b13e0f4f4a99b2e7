import pathlib
from decimal import Decimal, localcontext

import pytest
from hypothesis import HealthCheck, settings

from tanglepoly import diagram

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def decimal_root_text(p, k: int) -> str:
    """The CLI text of p at q = exp(k*pi*i/12), from a sum over all of p's
    terms in Decimal at 60 digits past the integer part: the powers of q
    come from cos and sin of 15 degrees, (sqrt 6 +- sqrt 2) / 4, by
    repeated multiplication."""
    bound = sum(abs(c) for c in p.terms.values())
    with localcontext() as ctx:
        ctx.prec = 60 + len(str(bound))
        r2, r6 = Decimal(2).sqrt(), Decimal(6).sqrt()
        c1, s1 = (r6 + r2) / 4, (r6 - r2) / 4
        powers = [(Decimal(1), Decimal(0))]
        for _ in range(23):
            x, y = powers[-1]
            powers.append((x * c1 - y * s1, x * s1 + y * c1))
        re = sum(c * powers[k * e % 24][0] for e, c in p.terms.items())
        im = sum(c * powers[k * e % 24][1] for e, c in p.terms.items())
        re, im = (Decimal(v).quantize(Decimal("1e-9")) for v in (re, im))
    # copy_abs, as abs() would round to the default context's 28 digits
    sign = "+" if im >= 0 else "-"
    return f"{re.copy_abs() if re == 0 else re:.9f} {sign} {im.copy_abs():.9f}i"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def planarity_calls(monkeypatch) -> list:
    """The diagrams diagram.planarity_problems runs on, in call order."""
    calls = []
    check = diagram.planarity_problems

    def counting(d):
        calls.append(d)
        return check(d)

    monkeypatch.setattr(diagram, "planarity_problems", counting)
    return calls

"""One-variable states given by Jacobi recursion data.

A state mu on polynomials in one variable is encoded by its recursion
coefficients: monic orthogonal polynomials satisfy

    x * P_n(x) = P_{n+1}(x) + beta_n * P_n(x) + gamma_n * P_{n-1}(x),

with P_0 = 1 and gamma_0 = 0 by convention.  Moments are recovered by
expanding powers of x in the P-basis and reading off the constant
coefficient, so everything stays exact.

A finite stored prefix plus an extension policy ("repeat" the last entry,
extend by "zero", or "error" out) describes an eventually-constant
coefficient sequence.  A zero gamma_n marks a state supported on n points;
once a gamma is zero, all later gammas must be zero as well.

JacobiData is an immutable value type and every operation here is pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .words import (
    FrozenRecord,
    Rational,
    clear_denominator,
    common_denominator,
    format_rational,
    format_value,
    json_type,
    parse_rational,
)

if TYPE_CHECKING:
    from .ncpoly import NCPolynomial

EXTENSION_POLICIES = ("repeat", "zero", "error")

_POLICY_ALIASES = {"repeat-last": "repeat", "repeat_last": "repeat"}


class JacobiRangeError(IndexError, ValueError):
    """Raised when data under the "error" extension policy is exhausted."""


class JacobiData(FrozenRecord):
    """Jacobi coefficients (beta_0, beta_1, ...) and (gamma_1, gamma_2, ...)."""

    __slots__ = ("beta", "gamma", "extend")
    beta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    extend: str

    def __init__(
        self, beta: Iterable[Rational | str], gamma: Iterable[Rational | str], extend: str = "repeat"
    ):
        for key, values in (("beta", beta), ("gamma", gamma)):
            if isinstance(values, (str, bytes)):
                raise ValueError(f"{key} must be a sequence of rationals, not a {type(values).__name__}")
        beta = tuple(map(parse_rational, beta))
        gamma = tuple(map(parse_rational, gamma))
        policy = _POLICY_ALIASES.get(extend, extend) if isinstance(extend, str) else None
        if policy not in EXTENSION_POLICIES:
            raise ValueError(f"unknown extension policy {format_value(extend)}")
        seen_zero = False
        for g in gamma:
            if g < 0:
                raise ValueError(f"negative gamma {g} would not define a state")
            if seen_zero and g != 0:
                raise ValueError("gamma must stay zero after its first zero entry")
            if g == 0:
                seen_zero = True
        super().__init__(beta, gamma, policy)

    def beta_at(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("beta index must be nonnegative")
        if n < len(self.beta):
            return self.beta[n]
        if self.extend == "repeat":
            return self.beta[-1] if self.beta else Fraction(0)
        if self.extend == "zero":
            return Fraction(0)
        raise JacobiRangeError(f"beta_{n} beyond stored prefix of length {len(self.beta)}")

    def gamma_at(self, n: int) -> Fraction:
        """gamma_n for n >= 1; gamma_0 is identically zero."""
        if n < 0:
            raise ValueError("gamma index must be nonnegative")
        if n == 0:
            return Fraction(0)
        if n - 1 < len(self.gamma):
            return self.gamma[n - 1]
        if self.extend == "repeat":
            return self.gamma[-1] if self.gamma else Fraction(0)
        if self.extend == "zero":
            return Fraction(0)
        raise JacobiRangeError(f"gamma_{n} beyond stored prefix of length {len(self.gamma)}")


def orthogonal_polynomial(
    data: JacobiData, n: int, *, letter: int = 1, alphabet: int = 1
) -> NCPolynomial:
    """Monic orthogonal polynomial P_n in the variable x_letter."""
    from .ncpoly import NCPolynomial

    if n < 0:
        raise ValueError("polynomial index must be nonnegative")
    prev = NCPolynomial.one(alphabet)
    if n == 0:
        return prev
    x = NCPolynomial.variable(letter, alphabet)
    current = x - data.beta_at(0)
    for k in range(1, n):
        current, prev = (x - data.beta_at(k)) * current - data.gamma_at(k) * prev, current
    return current


class MomentSequence:
    """The moments mu[x^0], mu[x^1], ... of one state, computed on demand.

    One transfer pass serves every index, and it runs in integers.  With D
    the ``scale``, an integer that clears every coefficient the pass reads,
    the scaled variable y = D x and basis Q_m = D^m P_m obey

        y * Q_m = Q_{m+1} + (D beta_m) * Q_m + (D^2 gamma_m) * Q_{m-1},

    with integer coefficients, so after n steps the vector holds the integer
    Q-coefficients of y^n, whose constant coefficient is D^n mu[x^n]
    (:meth:`numerator`); ``seq[n]`` divides it once.  D defaults to
    :func:`coefficient_scale`, which clears every coefficient the data can
    give.  A coefficient is scaled when the pass first reads it, and one
    that D does not clear raises ``ValueError`` there.  Asking for an index
    beyond those computed resumes the pass where it stopped, so each moment
    is computed once.
    """

    __slots__ = ("data", "scale", "_numerators", "_vec", "_beta", "_gamma")

    def __init__(self, data: JacobiData, scale: int | None = None):
        self.data = data
        self.scale = coefficient_scale(data) if scale is None else scale
        self._numerators = [1]
        self._vec = [1]
        # D beta_m and D^2 gamma_m, for the indices read so far
        self._beta: list[int] = []
        self._gamma: list[int] = []

    def numerator(self, n: int) -> int:
        """D^n mu[x^n], with D the scale."""
        if n < 0:
            raise ValueError("moment index must be nonnegative")
        numerators = self._numerators
        while len(numerators) <= n:
            self._vec = self._step(self._vec)
            numerators.append(self._vec[0])
        return numerators[n]

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self.numerator(n), self.scale**n)

    def _step(self, vec: list[int]) -> list[int]:
        """y * sum_m vec[m] Q_m in the Q-basis, by the scaled three-term recursion."""
        beta, gamma = self._beta, self._gamma
        while len(beta) < len(vec):
            m = len(beta)
            beta.append(clear_denominator(self.data.beta_at(m), self.scale))
            gamma.append(clear_denominator(self.data.gamma_at(m), self.scale * self.scale))
        nxt = [0] * (len(vec) + 1)
        for m, coeff in enumerate(vec):
            if not coeff:
                continue
            nxt[m + 1] += coeff
            if beta[m]:
                nxt[m] += coeff * beta[m]
            if gamma[m]:
                nxt[m - 1] += coeff * gamma[m]
        return nxt


def coefficient_scale(data: JacobiData) -> int:
    """The lcm of the stored coefficients' denominators.  Every beta_n and
    gamma_n is a stored entry or 0, whatever the extension policy, so it
    clears them all."""
    return common_denominator(data.beta + data.gamma)


def moment(data: JacobiData, n: int) -> Fraction:
    """n-th moment mu[x^n], via the transfer action on the P-basis."""
    return MomentSequence(data)[n]


def expectation(data: JacobiData, poly: NCPolynomial) -> Fraction:
    """Apply the state to a polynomial in a single variable."""
    moments = MomentSequence(data)
    total = Fraction(0)
    for word, coeff in poly.terms.items():
        if len(set(word)) > 1:
            raise ValueError("expectation only applies to one-variable polynomials")
        total += coeff * moments[len(word)]
    return total


PRESET_NAMES = ("semicircle", "q-gaussian", "gaussian", "point-mass", "bernoulli", "custom")


def preset(name: str, /, **params) -> JacobiData:
    """Build common Jacobi data by name, refusing a parameter it does not read.

    Presets whose coefficient sequences are not eventually constant
    (q-gaussian, gaussian) materialize ``terms`` entries (default 24) and
    repeat the last one beyond that, so moments are exact up to order
    ~2*terms.  "custom" reads the lists ``beta`` and ``gamma`` and ``extend``.
    """
    if name == "semicircle":
        _reject_params(name, params)
        return JacobiData(beta=(Fraction(0),), gamma=(Fraction(1),))
    if name == "q-gaussian":
        q = _required_rational(name, params, "q")
        terms = _terms(name, params)
        _reject_params(name, params)
        if q == 1:
            raise ValueError('q = 1 is not allowed; use preset("gaussian") for that limit')
        gamma = []
        power = Fraction(1)
        total = Fraction(0)
        for _ in range(terms):
            total += power  # gamma_n = 1 + q + ... + q^(n-1)
            power *= q
            gamma.append(total)
        return JacobiData(beta=(Fraction(0),), gamma=tuple(gamma))
    if name == "gaussian":
        terms = _terms(name, params)
        _reject_params(name, params)
        return JacobiData(beta=(Fraction(0),), gamma=tuple(map(Fraction, range(1, terms + 1))))
    if name == "point-mass":
        c = _required_rational(name, params, "c")
        _reject_params(name, params)
        return JacobiData(beta=(c,), gamma=(Fraction(0),))
    if name == "bernoulli":
        p, a, b = (_required_rational(name, params, key) for key in ("p", "a", "b"))
        _reject_params(name, params)
        if not 0 <= p <= 1:
            raise ValueError("bernoulli weight p must lie in [0, 1]")
        mean = p * a + (1 - p) * b
        variance = p * a * a + (1 - p) * b * b - mean * mean
        return JacobiData(beta=(mean, a + b - mean), gamma=(variance, Fraction(0)))
    if name == "custom":
        beta, gamma = params.pop("beta", ()), params.pop("gamma", ())
        extend = params.pop("extend", "repeat")
        _reject_params(name, params)
        for key, values in (("beta", beta), ("gamma", gamma)):
            if not isinstance(values, (list, tuple)):
                raise ValueError(
                    f"preset {name!r} needs {key!r} as an array of rationals, got {format_value(values)}"
                )
        return JacobiData(beta=beta, gamma=gamma, extend=extend)
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def _required_rational(name: str, params: dict, key: str) -> Fraction:
    if key not in params:
        raise ValueError(f"preset {name!r} requires parameter {key!r}")
    return parse_rational(params.pop(key))


def _terms(name: str, params: dict) -> int:
    terms = params.pop("terms", 24)
    if type(terms) is not int or terms < 1:
        raise ValueError(f"preset {name!r} needs 'terms' as a positive integer, got {format_value(terms)}")
    return terms


def _reject_params(name: str, params: Mapping) -> None:
    if params:
        raise ValueError(f"preset {name!r} got unexpected parameters {sorted(params)}")


def jacobi_to_json(data: JacobiData) -> dict:
    return {
        "beta": [format_rational(b) for b in data.beta],
        "gamma": [format_rational(g) for g in data.gamma],
        "extend": data.extend,
    }


def jacobi_from_json(obj: Mapping) -> JacobiData:
    """Read {"preset": name, ...parameters}; without "preset" the object is
    the "custom" preset's {"beta": [...], "gamma": [...], "extend": ...}."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"a marginal is a JSON object, not {json_type(obj)}")
    params = dict(obj)
    name = params.pop("preset", "custom")
    if type(name) is not str:
        raise ValueError(f"marginal 'preset' must be a string, got {format_value(name)}")
    return preset(name, **params)

"""Physical parameters of the two-species electrokinetic system, and `violation`, the one judge of
the admissible ranges that PhysParams.DOMAINS and gummel.SweepSettings.DOMAINS state for their fields;
the two rules across fields, on the valences and on the horizon, have one statement each here too."""

import math
from dataclasses import dataclass


def finite_number(v):
    """True for a number (not a bool) that is a finite float; an integer too large for a float is not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def violation(name, v, low=None, strict=False, high=None, integer=False, pair=False):
    """The message "<name> must ..., got <v>" if v is not a finite number (an int where integer)
    with v >= low, v > low where strict, or low < v <= high where high is given, or, where
    pair, a list or tuple of two finite positive numbers; else None."""
    if pair:
        ok = isinstance(v, (list, tuple)) and len(v) == 2 and all(finite_number(x) and x > 0.0 for x in v)
        return None if ok else "%s must be a pair of positive numbers, got %r" % (name, v)
    if not finite_number(v) or (integer and not isinstance(v, int)):
        return "%s must be a finite %s, got %r" % (name, "integer" if integer else "number", v)
    v, fmt = (v, "%d") if integer else (float(v), "%g")
    if high is not None and not low < v <= high:
        rule = "lie in (%g, %g]" % (low, high)
    elif high is None and low is not None and not (v > low if strict else v >= low):
        rule = ("be > " if strict else "be >= ") + fmt % low
    else:
        return None
    return "%s must %s, got %s" % (name, rule, fmt % v)


def stored(v, integer=False, pair=False, **_):
    """An admitted value as its record stores it: an int as it is, a pair as two floats, else a float."""
    return v if integer else tuple(map(float, v)) if pair else float(v)


def valence_violation(z1, z2):
    """The message if the integer valences break z1 > 0 > z2, else None."""
    return None if z1 > 0 > z2 else "valencies must satisfy z1 > 0 > z2, got z1=%d, z2=%d" % (z1, z2)


def horizon_violation(t_end, dt):
    """The message if the step dt exceeds the horizon t_end, else None."""
    return None if dt <= t_end else "dt must not exceed t_end, got dt=%g, t_end=%g" % (dt, t_end)


def check_domains(record):
    """Raise ValueError with the message of the first field outside its DOMAINS entry; store each as stored does."""
    for name, domain in record.DOMAINS.items():
        v = getattr(record, name)
        if message := violation(name, v, **domain):
            raise ValueError(message)
        object.__setattr__(record, name, stored(v, **domain))


@dataclass(frozen=True)
class PhysParams:
    """Constant material data.

    D and K are the diagonal entries of the diffusion and permeability
    tensors.  The dielectric tensor is eps_s * D (the field equation is
    formulated for the rescaled field E = -eps_s D grad(phi)).  kappa is the
    composite mobility coefficient multiplying z_l * E in the drift velocity,
    u_l = q + kappa * z_l * E.  z1 and z2 are the (integer) valencies with
    z1 > 0 > z2.  exchange_rate >= 0 is the rate of the inter-species
    exchange r1 = exchange_rate (c2+ - c1+), r2 = -r1, and so the Lipschitz
    constant C_R of the rate functions; 0 means no reaction.  T_end and dt
    are the run horizon and the nominal step, positive with dt <= T_end.
    DOMAINS, in keyword arguments of violation, is the one statement of each
    field's range; valence_violation and horizon_violation state the rules
    that tie two fields.
    """

    theta: float = 1.0
    D: tuple = (1.0, 1.0)
    K: tuple = (1.0, 1.0)
    mu: float = 1.0
    eps_s: float = 1.0
    kappa: float = 1.0
    z1: int = 1
    z2: int = -1
    exchange_rate: float = 0.0
    T_end: float = 1.0
    dt: float = 0.1

    DOMAINS = {
        "theta": dict(low=0, high=1),
        **dict.fromkeys(("mu", "eps_s", "T_end", "dt"), dict(low=0, strict=True)),
        **dict.fromkeys(("kappa", "exchange_rate"), dict(low=0)),
        **dict.fromkeys(("z1", "z2"), dict(integer=True)),
        **dict.fromkeys(("D", "K"), dict(pair=True)),
    }

    def __post_init__(self):
        check_domains(self)
        if message := valence_violation(self.z1, self.z2) or horizon_violation(self.T_end, self.dt):
            raise ValueError(message)

    @property
    def z(self):
        """The valencies as a pair indexed by species, (z1, z2)."""
        return (self.z1, self.z2)

    @property
    def max_z(self):
        return float(max(self.z1, -self.z2))

    @property
    def alpha_D(self):
        """Smallest diffusion eigenvalue (coercivity constant of D)."""
        return min(self.D)

    @property
    def alpha_K(self):
        """Coercivity constant of K^-1 (reciprocal of the largest permeability)."""
        return 1.0 / max(self.K)

    @property
    def C_K(self):
        """Continuity constant of K^-1 (reciprocal of the smallest permeability)."""
        return 1.0 / min(self.K)

    @property
    def epsilon(self):
        """Diagonal entries of the dielectric tensor eps_s * D."""
        return tuple(self.eps_s * d for d in self.D)

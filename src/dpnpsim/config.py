"""JSON run configuration: schema, validation, and object construction.

A configuration is one JSON object with blocks

  grid, physics, initial, background_charge, boundary, time, output

(all optional except grid, physics, initial, and time).  `parse_config`
validates the whole document before building anything and reports *every*
violation at once in ConfigError.violations, each message naming the
offending content; it never stops at the first problem.  A key that fills a
field of PhysParams.DOMAINS or SweepSettings.DOMAINS is judged by that entry,
so it gets the record's message under the key's name ("time.tol must be > 0");
the valence and horizon rules give params' messages after "physics " and
"time.".  The key lists of the time and initial blocks and of a ramp are read
off the records they fill.

Scalar fields on cells (initial concentrations, background charge) are given
as specs:

  2.5                                                   constant shorthand
  {"kind": "constant", "value": 2.5}
  {"kind": "gaussian", "center": [x, y], "width": w, "amplitude": a}
  {"kind": "expression", "expr": "1 + 0.5*sin(pi*x)*sin(pi*y)"}

Expressions are parsed into a whitelisted AST (names x, y, pi; calls sin,
cos, exp, sqrt, abs; arithmetic and unary minus) and evaluated with numpy on
the cell centers -- no general evaluation happens.

Boundary data (sigma, f, g1, g2) are per-side constants with an optional
time ramp; inflows g1, g2 must be nonnegative and the Darcy data f must
balance to zero total flux, since the flow problem is incompressible with
pure flux boundary conditions.
"""

import ast
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .darcy import imbalance
from .gummel import SweepSettings
from .mesh import SIDES, CellField, Grid
from .params import PhysParams, finite_number, horizon_violation, stored, valence_violation, violation
from .schedule import BoundarySpec, Ramp, Schedule
from .transport import Concentrations

_BLOCKS = ("grid", "physics", "initial", "background_charge", "boundary", "time", "output")
_GRID_KEYS = ("nx", "ny", "lx", "ly")
_PHYSICS_KEYS = ("theta", "D", "K", "mu", "eps_s", "kappa", "z1", "z2", "reaction")
_REACTION_KEYS = ("kind", "rate")
_INITIAL_KEYS = Concentrations._fields
_INFLOW_KEYS = ("g1", "g2")  # one per species
_BOUNDARY_KEYS = ("sigma", "f") + _INFLOW_KEYS
_SIDE_KEYS = SIDES + ("ramp",)
_RAMP_KEYS = tuple(f.name for f in fields(Ramp))
_TIME_KEYS = ("t_end", "dt", *SweepSettings.DOMAINS)
_OUTPUT_KEYS = ("directory", "snapshot_stride")
_SPEC_KEYS = {
    "constant": ("kind", "value"),
    "gaussian": ("kind", "center", "width", "amplitude"),
    "expression": ("kind", "expr"),
}

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_ALLOWED_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y, "pi": math.pi}
_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_ALLOWED_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


class ConfigError(ValueError):
    """Raised by parse_config; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join("  - " + v for v in self.violations))


class ExpressionError(ValueError):
    pass


def compile_expression(text):
    """Compile a whitelisted arithmetic expression of x and y.

    Returns a function (x, y) -> array.  Raises ExpressionError for anything
    outside the whitelist, naming the offending construct, and for a constant
    part (folded here) that is not a finite real number: 1/0, 10**400, (-8)**0.5.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError("expression %r does not parse: %s" % (text, exc.msg)) from None

    def fold(node, fn, *values):
        """The value fn(*values) of a constant node, which must be a finite real number."""
        try:
            with np.errstate(all="ignore"):
                value = fn(*values)
        except (ZeroDivisionError, OverflowError):
            value = math.nan
        if isinstance(value, complex) or not math.isfinite(value):
            raise ExpressionError("expression %r: constant %s is not a finite real number" % (text, ast.unparse(node)))
        return float(value)

    def build(node):
        """Validate node (before its operands); return a float if it is constant, else its closure (x, y) -> value."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise ExpressionError("expression %r uses a non-numeric constant %r" % (text, node.value))
            return fold(node, float, node.value)
        if isinstance(node, ast.Name):
            if node.id not in _ALLOWED_NAMES:
                raise ExpressionError(
                    "expression %r uses unknown name %r (allowed: %s)" % (text, node.id, ", ".join(_ALLOWED_NAMES))
                )
            return _ALLOWED_NAMES[node.id]
        if isinstance(node, ast.BinOp):
            op = _ALLOWED_BINOPS.get(type(node.op))
            if op is None:
                raise ExpressionError("expression %r uses a forbidden operator" % text)
            operands = build(node.left), build(node.right)
        elif isinstance(node, ast.UnaryOp):
            op = _ALLOWED_UNARY.get(type(node.op))
            if op is None:
                raise ExpressionError("expression %r uses a forbidden unary operator" % text)
            operands = (build(node.operand),)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ExpressionError(
                    "expression %r calls something other than %s" % (text, ", ".join(sorted(_ALLOWED_CALLS)))
                )
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError("expression %r: %s takes exactly one argument" % (text, node.func.id))
            op, operands = _ALLOWED_CALLS[node.func.id], (build(node.args[0]),)
        else:
            raise ExpressionError("expression %r uses forbidden syntax (%s)" % (text, type(node).__name__))
        if all(isinstance(v, float) for v in operands):
            return fold(node, op, *operands)
        return lambda x, y: op(*(v(x, y) if callable(v) else v for v in operands))

    root = build(tree.body)
    return root if callable(root) else (lambda x, y: root)


@dataclass
class RunConfig:
    grid: Grid
    params: PhysParams
    initial: Concentrations
    schedule: Schedule
    settings: SweepSettings
    out_dir: str
    snapshot_stride: int


class _Reader:
    """Accumulates violations while pulling typed values out of the document."""

    def __init__(self):
        self.violations = []

    def flag(self, message):
        self.violations.append(message)

    def obj(self, raw, where, allowed):
        """raw if it is a JSON object, else {}; flags a non-object and every key not in allowed."""
        if not isinstance(raw, dict):
            self.flag("%s must be an object" % where)
            return {}
        for key in raw:
            if key not in allowed:
                self.flag("unknown key %r in %s (allowed: %s)" % (key, where, ", ".join(allowed)))
        return raw

    def block(self, doc, name, allowed, required=False):
        """The top-level block name; an absent or null block is missing and reads as {}."""
        if doc.get(name) is None:
            if required:
                self.flag("missing required block %r" % name)
            return {}
        return self.obj(doc[name], "block %r" % name, allowed)

    def number(self, sub, where, key, default=None, required=False, **domain):
        """sub[key] inside the domain (see params.violation), as params.stored stores it; else default."""
        if key not in sub:
            if required:
                self.flag("%s.%s is required" % (where, key))
            return default
        v = sub[key]
        if message := violation("%s.%s" % (where, key), v, **domain):
            self.flag(message)
            return default
        return stored(v, **domain)


def _read_field_spec(reader, raw, where):
    """Returns a function (x, y) -> array, or None when invalid."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if not finite_number(raw):
            reader.flag("%s must be finite, got %r" % (where, raw))
            return None
        return lambda x, y, v=float(raw): np.full(np.shape(x), v)
    if not isinstance(raw, dict):
        reader.flag("%s must be a number or a field spec object, got %r" % (where, raw))
        return None
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        reader.flag("%s.kind must be one of %s, got %r" % (where, ", ".join(_SPEC_KEYS), kind))
        return None
    reader.obj(raw, where, _SPEC_KEYS[kind])
    if kind == "constant":
        v = reader.number(raw, where, "value", required=True)
        if v is None:
            return None
        return lambda x, y: np.full(np.shape(x), v)
    if kind == "gaussian":
        center = raw.get("center")
        ok = isinstance(center, (list, tuple)) and len(center) == 2 and all(finite_number(c) for c in center)
        if not ok:
            reader.flag("%s.center must be [x, y], got %r" % (where, center))
        width = reader.number(raw, where, "width", required=True, low=0.0, strict=True)
        if width is not None and width > math.sqrt(np.finfo(float).max):  # width**2 would raise OverflowError
            reader.flag("%s.width must have a finite square, got %g" % (where, width))
            width = None
        amp = reader.number(raw, where, "amplitude", required=True)
        if not ok or width is None or amp is None:
            return None
        cx, cy = float(center[0]), float(center[1])
        return lambda x, y: amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))
    expr = raw.get("expr")
    if not isinstance(expr, str):
        reader.flag("%s.expr must be a string, got %r" % (where, expr))
        return None
    try:
        fn = compile_expression(expr)
    except ExpressionError as exc:
        reader.flag("%s: %s" % (where, exc))
        return None
    return lambda x, y: np.asarray(fn(x, y), dtype=float) + np.zeros(np.shape(x))


def _read_boundary_field(reader, raw, name):
    """Returns (sides dict, Ramp or None) of boundary.<name>: zero sides and no ramp where absent or unreadable."""
    where = "boundary." + name
    raw = {} if raw is None else reader.obj(raw, where, _SIDE_KEYS)
    sides = {}
    for s in SIDES:
        v = reader.number(raw, where, s, default=0.0)
        if name in _INFLOW_KEYS and v < 0.0:
            reader.flag("%s.%s is an inflow and must be nonnegative, got %g" % (where, s, v))
        sides[s] = v
    ramp = None
    if "ramp" in raw:
        rr = reader.obj(raw["ramp"], where + ".ramp", _RAMP_KEYS)
        times = {k: reader.number(rr, where + ".ramp", k) for k in _RAMP_KEYS if k != "kind" and k in rr}
        try:  # Ramp checks kind and times; a time read as None is already flagged
            ramp = None if None in times.values() else Ramp(rr.get("kind", "const"), **times)
        except ValueError as exc:
            reader.flag("%s.ramp: %s" % (where, exc))
    return sides, ramp


def _on_grid(reader, grid, spec, where, nonneg):
    """spec at the cell centers as a CellField; None, flagged, if a value is not finite or (nonneg) negative."""
    with np.errstate(all="ignore"):  # every non-finite value is flagged below
        vals = np.asarray(spec(*grid.cell_centers()), dtype=float)
    if not np.all(np.isfinite(vals)):
        reader.flag("%s evaluates to non-finite values on the grid" % where)
    elif nonneg and vals.min() < 0.0:
        reader.flag("%s must be nonnegative on the grid; minimum is %g" % (where, float(vals.min())))
    else:
        return CellField(grid, vals)
    return None


def parse_config(source):
    """Parse JSON text (or an already-decoded dict) into a RunConfig.

    Raises ConfigError carrying every violation found; the error message
    lists them one per line.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(["document is not valid JSON: %s" % exc]) from None
        if not isinstance(doc, dict):
            raise ConfigError(["top level must be a JSON object"])

    r = _Reader()
    for key in doc:
        if key not in _BLOCKS:
            r.flag("unknown top-level block %r (allowed: %s)" % (key, ", ".join(_BLOCKS)))

    g = r.block(doc, "grid", _GRID_KEYS, required=True)
    n = [r.number(g, "grid", key, required=True, integer=True, low=1) for key in ("nx", "ny")]
    length = [r.number(g, "grid", key, default=1.0, low=0.0, strict=True) for key in ("lx", "ly")]

    ph = r.block(doc, "physics", _PHYSICS_KEYS, required=True)
    defaults, domains = PhysParams(), PhysParams.DOMAINS
    phys = {  # the PhysParams fields of the physics keys, each judged by its field's domain
        key: r.number(ph, "physics", key, default=getattr(defaults, key), **domains[key])
        for key in _PHYSICS_KEYS
        if key != "reaction"
    }
    if message := valence_violation(phys["z1"], phys["z2"]):
        r.flag("physics " + message)
    exchange_rate = defaults.exchange_rate
    if "reaction" in ph:
        rb = r.obj(ph["reaction"], "physics.reaction", _REACTION_KEYS)
        kind = rb.get("kind", "none")
        rate = r.number(rb, "physics.reaction", "rate", default=exchange_rate, **domains["exchange_rate"])
        if kind not in ("none", "exchange"):
            r.flag("physics.reaction.kind must be 'none' or 'exchange', got %r" % kind)
        elif kind == "exchange":  # "none" is the exchange at rate 0
            exchange_rate = rate

    ini = r.block(doc, "initial", _INITIAL_KEYS, required=True)
    c_specs = []
    for name in _INITIAL_KEYS:
        if name not in ini:
            r.flag("initial.%s is required" % name)
            c_specs.append(None)
        else:
            c_specs.append(_read_field_spec(r, ini[name], "initial.%s" % name))

    rho_b_spec = _read_field_spec(r, doc.get("background_charge", 0.0), "background_charge")

    bnd = r.block(doc, "boundary", _BOUNDARY_KEYS)
    boundary = {name: _read_boundary_field(r, bnd.get(name), name) for name in _BOUNDARY_KEYS}

    tm = r.block(doc, "time", _TIME_KEYS, required=True)
    t_end = r.number(tm, "time", "t_end", required=True, **PhysParams.DOMAINS["T_end"])
    dt = r.number(tm, "time", "dt", required=True, **PhysParams.DOMAINS["dt"])
    defaults = SweepSettings()
    sweep = {k: r.number(tm, "time", k, default=getattr(defaults, k), **d) for k, d in SweepSettings.DOMAINS.items()}
    if None not in (t_end, dt) and (message := horizon_violation(t_end, dt)):
        r.flag("time." + message)

    out = r.block(doc, "output", _OUTPUT_KEYS)
    out_dir = out.get("directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        r.flag("output.directory must be a nonempty string, got %r" % out_dir)
    stride = r.number(out, "output", "snapshot_stride", default=1, integer=True, low=1)

    # Everything below needs a valid grid; build it only if the geometry
    # parsed, and keep collecting violations that do not need it.  The records
    # (PhysParams, Schedule, SweepSettings, RunConfig) are built only after the
    # verdict, from values the reader has passed, so a bad value never reaches them.
    grid = initial = rho_b_field = None
    if None not in n:
        grid = Grid(*n, *length)
        specs = {name: BoundarySpec(grid, ramp, **sides) for name, (sides, ramp) in boundary.items()}
        if net := imbalance(specs["f"].base):
            r.flag("boundary.f must have zero total flux for the incompressible flow problem; net integral is %g" % net)
        if all(s is not None for s in c_specs):
            conc = [_on_grid(r, grid, s, "initial." + n, nonneg=True) for n, s in zip(_INITIAL_KEYS, c_specs)]
            if all(c is not None for c in conc):
                initial = Concentrations(*conc)
        if rho_b_spec is not None:
            rho_b_field = _on_grid(r, grid, rho_b_spec, "background_charge", nonneg=False)

    if r.violations:
        raise ConfigError(r.violations)

    params = PhysParams(**phys, exchange_rate=exchange_rate, T_end=t_end, dt=dt)
    schedule = Schedule(specs["sigma"], specs["f"], tuple(specs[n] for n in _INFLOW_KEYS), rho_b_field)
    return RunConfig(
        grid=grid,
        params=params,
        initial=initial,
        schedule=schedule,
        settings=SweepSettings(**sweep),
        out_dir=out_dir,
        snapshot_stride=stride,
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

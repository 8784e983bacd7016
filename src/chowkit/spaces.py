"""The tower of spaces and its pushforward operators.

Six spaces, all presented over the same degree-truncated coefficient ring:

    B        base; free on a1, a2, a2p, c2
    P        P1-bundle over B; adds z with z**2 = -c2
    PE, X3   P1-bundle over P; adds zeta_p with zeta**2 = A*zeta - B,
             A = a1 + (g+2)*z, B = a2 + a2p*z
    X111, Xtilde3
             fiber square over P resp. over B; adds zeta_q with the same
             square rule

PE and X3 (and X111 and Xtilde3) are distinct labels for structurally
identical presentations; elements compare across the pair.  Pushforwards
extract the linear coefficient of the relevant tautological class (the
rank-2 projective bundle formula: gamma_* (zeta * gamma^* beta) = beta,
gamma_* gamma^* beta = 0), pullbacks are generator renamings, and the
diagonal restriction substitutes zeta_q -> zeta_p.

Truncation degree comes from the CHOWKIT_TRUNCATION environment variable
when not passed explicitly (default 4).
"""

from __future__ import annotations

import os
from fractions import Fraction

from .ring import G, Generator, ParamPoly, RingPresentation

SPACE_IDS = ("B", "P", "PE", "X111", "X3", "Xtilde3")

_BASE_GENS = (Generator("a1", 1), Generator("a2", 2),
              Generator("a2p", 1), Generator("c2", 2))

#: pushforward target of each fibration step
_GAMMA_TARGET = {"PE": "P", "X3": "P", "X111": "PE", "Xtilde3": "X3"}

_DEFAULT_TRUNCATION = 4


def _truncation_from_env():
    raw = os.environ.get("CHOWKIT_TRUNCATION")
    if raw is None:
        return _DEFAULT_TRUNCATION
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"CHOWKIT_TRUNCATION must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError("CHOWKIT_TRUNCATION must be positive")
    return value


def _space_generators(space_id):
    if space_id == "B":
        return _BASE_GENS
    if space_id == "P":
        return (Generator("z", 1),) + _BASE_GENS
    if space_id in ("PE", "X3"):
        return (Generator("zeta_p", 1), Generator("z", 1)) + _BASE_GENS
    if space_id in ("X111", "Xtilde3"):
        return (Generator("zeta_p", 1), Generator("zeta_q", 1),
                Generator("z", 1)) + _BASE_GENS
    raise ValueError(f"unknown space id {space_id!r}")


def _mono(gens, **powers):
    names = [gq.name for gq in gens]
    exps = [0] * len(gens)
    for name, e in powers.items():
        exps[names.index(name)] = e
    return tuple(exps)


def _zeta_rule(gens, zeta):
    """zeta**2 -> A*zeta - B with A = a1 + (g+2)z, B = a2 + a2p*z."""
    m = lambda **kw: _mono(gens, **kw)
    return {
        m(**{zeta: 1, "a1": 1}): ParamPoly.const(1),
        m(**{zeta: 1, "z": 1}): G + 2,
        m(a2=1): ParamPoly.const(-1),
        m(a2p=1, z=1): ParamPoly.const(-1),
    }


def _presentation(space_id, truncation):
    gens = _space_generators(space_id)
    rules = {}
    order = []
    if space_id in ("X111", "Xtilde3"):
        rules["zeta_q"] = _zeta_rule(gens, "zeta_q")
        rules["zeta_p"] = _zeta_rule(gens, "zeta_p")
        order = ["zeta_q", "zeta_p", "z"]
    elif space_id in ("PE", "X3"):
        rules["zeta_p"] = _zeta_rule(gens, "zeta_p")
        order = ["zeta_p", "z"]
    if space_id != "B":
        rules["z"] = {_mono(gens, c2=1): ParamPoly.const(-1)}
        if not order:
            order = ["z"]
    return RingPresentation(gens, rules, truncation_degree=truncation,
                            rewrite_order=order or None)


def _named_classes(space_id, ring):
    classes = {}
    if space_id == "B":
        return classes
    z = ring.gen("z")
    a1 = ring.gen("a1")
    a2 = ring.gen("a2")
    a2p = ring.gen("a2p")
    A = a1 + (G + 2) * z
    classes["c1E"] = A
    classes["c2E"] = a2 + a2p * z
    classes["c1Omega_base"] = -2 * z
    if space_id == "P":
        return classes

    def per_zeta(zeta):
        return {
            "c1W": 3 * zeta - A,
            "c1Omega_vert": -2 * zeta + A,
            "c1T_rel_B": 2 * zeta - a1 - G * z,
            "c1Q": -A + zeta,
        }

    if space_id in ("PE", "X3"):
        classes.update(per_zeta(ring.gen("zeta_p")))
    else:
        for suffix in ("p", "q"):
            for name, value in per_zeta(ring.gen(f"zeta_{suffix}")).items():
                classes[f"{name}_{suffix}"] = value
    return classes


class SpaceContext:
    """A space of the tower: presentation plus its named classes."""

    __slots__ = ("space_id", "ring", "named_classes", "g_value", "truncation")

    def __init__(self, space_id, ring, named_classes, g_value, truncation):
        object.__setattr__(self, "space_id", space_id)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "named_classes", dict(named_classes))
        object.__setattr__(self, "g_value", g_value)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, *a):
        raise AttributeError("SpaceContext is immutable")

    def __repr__(self):
        g = "g" if self.g_value is None else str(self.g_value)
        return f"<space {self.space_id} at {g}>"

    def gen(self, name):
        return self.ring.gen(name)

    def cls(self, name):
        try:
            return self.named_classes[name]
        except KeyError:
            raise KeyError(
                f"no class {name!r} on {self.space_id}; have "
                f"{sorted(self.named_classes)}") from None

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def const(self, c):
        return self.ring.const(c)

    def parse(self, text):
        return self.ring.parse(text)


_CACHE = {}


def build_space(space_id, g=None, truncation=None):
    """SpaceContext for one of B, P, PE, X3, X111, Xtilde3.

    g=None keeps the genus symbolic; an int or Fraction specializes it.
    Contexts are cached per (space, g, truncation): the symbolic ones all
    stay, specialized ones only for the most recent genus, so a long sweep
    over g does not grow the cache.
    """
    if space_id not in SPACE_IDS:
        raise ValueError(f"unknown space id {space_id!r}; "
                         f"expected one of {', '.join(SPACE_IDS)}")
    if truncation is None:
        truncation = _truncation_from_env()
    if g is not None:
        g = Fraction(g)
    key = (space_id, g, truncation)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    ring = _presentation(space_id, truncation)
    classes = _named_classes(space_id, ring)
    if g is not None:
        for stale in [k for k in _CACHE if k[1] not in (None, g)]:
            del _CACHE[stale]
        ring = ring.specialize(g)
        classes = {k: v.evaluate(g) for k, v in classes.items()}
    ctx = SpaceContext(space_id, ring, classes, g, truncation)
    _CACHE[key] = ctx
    return ctx


def _sibling(ctx, space_id):
    return build_space(space_id, g=ctx.g_value, truncation=ctx.truncation)


def _remap(element, src_ring, dst_ring, rename):
    out = {}
    for exps, coeff in element.terms.items():
        new = [0] * len(dst_ring.generators)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = src_ring.generators[i].name
            name = rename.get(name, name)
            if not dst_ring.has_generator(name):
                raise ValueError(f"generator {name} does not exist in the "
                                 "target presentation")
            new[dst_ring.index_of(name)] += e
        key = tuple(new)
        out[key] = out.get(key, ParamPoly()) + coeff
    return dst_ring.element(out)


def lift(element, target_ctx, rename=None):
    """Pullback along the tower: the generator-renaming injection."""
    return _remap(element, element.ring, target_ctx.ring, rename or {})


def _extract_linear(ctx, element, name, target_ctx, rename):
    _, linear = element.split_linear(name)
    return _remap(linear, ctx.ring, target_ctx.ring, rename)


def pushforward(ctx, element, along, zeta="zeta_p"):
    """Pushforward along one of the tower maps.

    along="gamma": the P1-bundle step that introduced a zeta; on the
    two-point spaces the zeta argument picks which one is integrated out
    (the surviving zeta is renamed zeta_p when it has to move to a
    one-point space).  along="pi": the P -> B step, integrating out z.
    along="gamma_then_pi": both steps of the PE/X3 tower.
    along="eta_p": reinterpret a zeta_q-free class on Xtilde3/X111 on the
    one-point space (not a fibration pushforward; degree is preserved).
    """
    if element.ring != ctx.ring:
        raise ValueError("element does not live on the given space")
    sid = ctx.space_id
    if along == "gamma":
        if sid not in _GAMMA_TARGET:
            raise ValueError(f"no gamma pushforward on {sid}")
        if sid in ("PE", "X3"):
            if zeta != "zeta_p":
                raise ValueError(f"{sid} carries only zeta_p")
            return _extract_linear(ctx, element, "zeta_p",
                                   _sibling(ctx, _GAMMA_TARGET[sid]), {})
        if zeta not in ("zeta_p", "zeta_q"):
            raise ValueError(f"unknown tautological class {zeta!r}")
        target = _sibling(ctx, _GAMMA_TARGET[sid])
        rename = {"zeta_q": "zeta_p"} if zeta == "zeta_p" else {}
        return _extract_linear(ctx, element, zeta, target, rename)
    if along == "pi":
        if sid != "P":
            raise ValueError(f"pi pushes forward from P, not {sid}")
        return _extract_linear(ctx, element, "z", _sibling(ctx, "B"), {})
    if along == "gamma_then_pi":
        if sid not in ("PE", "X3"):
            raise ValueError(f"gamma_then_pi runs the PE tower, not {sid}")
        mid = pushforward(ctx, element, "gamma")
        return pushforward(_sibling(ctx, "P"), mid, "pi")
    if along == "eta_p":
        if sid not in ("X111", "Xtilde3"):
            raise ValueError(f"eta_p forgets zeta_q; {sid} has none")
        qi = ctx.ring.index_of("zeta_q")
        if any(exps[qi] for exps in element.terms):
            raise ValueError("class involves zeta_q; eta_p is only defined "
                             "for zeta_q-free classes")
        target = _sibling(ctx, "X3" if sid == "Xtilde3" else "PE")
        return _remap(element, ctx.ring, target.ring, {})
    raise ValueError(f"unknown pushforward {along!r}")


def diagonal(ctx, element):
    """Restrict a class on Xtilde3 to the diagonal: zeta_q -> zeta_p."""
    if ctx.space_id != "Xtilde3":
        raise ValueError("diagonal restriction is defined on Xtilde3")
    substituted = element.substitute_generator("zeta_q",
                                              ctx.ring.gen("zeta_p"))
    return pushforward(ctx, substituted, "eta_p")

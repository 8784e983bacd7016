"""The tower of spaces and its pushforward operators.

``_TOWER`` gives each space its zetas and the space one step below it;
every presentation, named class and pushforward is read off that table.
All six spaces share one degree-truncated coefficient ring:

    B        base; free on a1, a2, a2p, c2 (no z: zetas None)
    P        P1-bundle over B; adds z with z**2 = -c2
    PE, X3   P1-bundle over P; adds zeta_p with zeta**2 = A*zeta - B,
             A = a1 + (g+2)*z, B = a2 + a2p*z
    X111, Xtilde3
             fiber square over P resp. over B; adds zeta_q with the same
             square rule

The generators are the zetas, z, then the base ones; rewriting takes the
zetas in reverse, then z.  PE and X3 (and X111 and Xtilde3) are one recipe
under two labels that differ only in the space below; elements compare
across the pair.  A pushforward is one of two P1-bundle steps down, gamma
(a zeta) or pi (z on P): the linear coefficient of the generator that the
step introduced, by the rank-2 projective bundle formula
gamma_* (zeta * gamma^* beta) = beta, gamma_* gamma^* beta = 0.  Every
other map is one ring map, ``lift``, that renames generators: a pullback
keeps the names, and the diagonal restriction Xtilde3 -> X3 renames
zeta_q to zeta_p.

Truncation degree comes from the CHOWKIT_TRUNCATION environment variable
when not passed explicitly (default 4).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .ring import G, Generator, ParamPoly, RingPresentation, _as_fraction

#: space -> (zetas, space one step below); B has no z, marked by None
_TOWER = {
    "B": (None, None),
    "P": ((), "B"),
    "PE": (("zeta_p",), "P"),
    "X111": (("zeta_p", "zeta_q"), "PE"),
    "X3": (("zeta_p",), "P"),
    "Xtilde3": (("zeta_p", "zeta_q"), "X3"),
}

SPACE_IDS = tuple(_TOWER)

_BASE_GENS = (Generator("a1", 1), Generator("a2", 2),
              Generator("a2p", 1), Generator("c2", 2))

_DEFAULT_TRUNCATION = 4


def _truncation_from_env():
    raw = os.environ.get("CHOWKIT_TRUNCATION")
    if raw is None:
        return _DEFAULT_TRUNCATION
    digits = raw.strip()
    if not (digits.isascii() and digits.isdigit()):  # int() takes '+3', '1_0'
        raise ValueError(f"CHOWKIT_TRUNCATION must be an integer, got {raw!r}")
    value = int(digits)
    if value < 1:
        raise ValueError("CHOWKIT_TRUNCATION must be positive")
    return value


def _mono(gens, **powers):
    names = [gq.name for gq in gens]
    exps = [0] * len(gens)
    for name, e in powers.items():
        exps[names.index(name)] = e
    return tuple(exps)


def _square_rule(gens, name):
    """z**2 -> -c2; zeta**2 -> A*zeta - B with A = a1 + (g+2)z,
    B = a2 + a2p*z."""
    m = lambda **kw: _mono(gens, **kw)
    if name == "z":
        return {m(c2=1): ParamPoly.const(-1)}
    return {
        m(**{name: 1, "a1": 1}): ParamPoly.const(1),
        m(**{name: 1, "z": 1}): G + 2,
        m(a2=1): ParamPoly.const(-1),
        m(a2p=1, z=1): ParamPoly.const(-1),
    }


def _presentation(space_id, truncation):
    zetas = _TOWER[space_id][0]
    fiber = () if zetas is None else (*zetas, "z")
    gens = tuple(Generator(name, 1) for name in fiber) + _BASE_GENS
    order = () if zetas is None else (*reversed(zetas), "z")
    rules = {name: _square_rule(gens, name) for name in order}
    return RingPresentation(gens, rules, truncation_degree=truncation,
                            rewrite_order=order)


def _named_classes(space_id, ring):
    zetas = _TOWER[space_id][0]
    if zetas is None:
        return {}
    z = ring.gen("z")
    a1 = ring.gen("a1")
    A = a1 + (G + 2) * z
    classes = {"c1E": A, "c2E": ring.gen("a2") + ring.gen("a2p") * z,
               "c1Omega_base": -2 * z}
    for name in zetas:
        suffix = name[-2:] if len(zetas) > 1 else ""
        zeta = ring.gen(name)
        classes.update({
            "c1W" + suffix: 3 * zeta - A,
            "c1Omega_vert" + suffix: -2 * zeta + A,
            "c1T_rel_B" + suffix: 2 * zeta - a1 - G * z,
            "c1Q" + suffix: -A + zeta,
        })
    return classes


@dataclass(frozen=True, eq=False, slots=True)
class SpaceContext:
    """A space of the tower: presentation plus its named classes.

    Contexts hash and compare by identity, so they can key caches.
    """

    space_id: str
    ring: RingPresentation
    named_classes: dict
    g_value: Fraction | None
    truncation: int

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

    g=None keeps the genus symbolic; an int or Fraction specializes it,
    and any other type (a float) raises TypeError.
    Contexts are cached per (space, g, truncation): the symbolic ones all
    stay, specialized ones only for the most recent genus, so a long sweep
    over g does not grow the cache.
    """
    if space_id not in _TOWER:
        raise ValueError(f"unknown space id {space_id!r}; "
                         f"expected one of {', '.join(SPACE_IDS)}")
    if truncation is None:
        truncation = _truncation_from_env()
    if g is not None:
        g = _as_fraction(g)
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


def lift(element, target_ctx, rename=None):
    """The tower's one renaming map: pullbacks, the landing of each
    pushforward step and the diagonal restriction all go through it.

    Each generator keeps its name unless rename maps it to another; the
    renamed terms are normalized in the target, so two generators renamed
    to one multiply out by the target's square rules.  A generator with no
    counterpart in the target raises ValueError.
    """
    rename = rename or {}
    src, dst = element.ring, target_ctx.ring
    out = {}
    for exps, coeff in element.terms.items():
        new = [0] * len(dst.generators)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = src.generators[i].name
            name = rename.get(name, name)
            if not dst.has_generator(name):
                raise ValueError(f"generator {name} does not exist in the "
                                 "target presentation")
            new[dst.index_of(name)] += e
        key = tuple(new)
        out[key] = out.get(key, ParamPoly()) + coeff
    return dst.element(out)


def pushforward(ctx, element, along, zeta="zeta_p"):
    """Pushforward along one P1-bundle step of the tower.

    along="gamma": the step that introduced a zeta; on the two-point
    spaces the zeta argument picks which one is integrated out (the
    surviving zeta_q is renamed zeta_p on the one-point space below).
    along="pi": the P -> B step, integrating out z; it integrates out no
    zeta and refuses any zeta but the default.  Each step keeps the linear
    coefficient of its generator and lifts it to the space below; longer
    pushforwards compose the steps.
    """
    if element.ring != ctx.ring:
        raise ValueError("element does not live on the given space")
    zetas, below = _TOWER[ctx.space_id]
    if along == "gamma":
        if zeta not in (zetas or ()):
            raise ValueError(f"no gamma pushforward of {zeta!r} on "
                             f"{ctx.space_id}")
        step = zeta
    elif along == "pi":
        if zeta != "zeta_p":
            raise ValueError(f"pi integrates out no zeta; got zeta={zeta!r}")
        if zetas != ():
            raise ValueError(f"pi pushes forward from P, not {ctx.space_id}")
        step = "z"
    else:
        raise ValueError(f"unknown pushforward {along!r}")
    _, linear = element.split_linear(step)
    rename = {"zeta_q": "zeta_p"} if step == "zeta_p" else {}
    return lift(linear, _sibling(ctx, below), rename)


def diagonal(ctx, element):
    """Restrict a class on Xtilde3 to the diagonal of X3: the lift that
    renames zeta_q to zeta_p."""
    if ctx.space_id != "Xtilde3":
        raise ValueError("diagonal restriction is defined on Xtilde3")
    return lift(element, _sibling(ctx, "X3"), {"zeta_q": "zeta_p"})

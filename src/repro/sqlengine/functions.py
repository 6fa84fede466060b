"""Scalar SQL functions, including the non-deterministic ones.

``NOW()`` and ``RAND()`` are the two functions the paper singles out
(section 4.3.2): under statement-based replication they produce different
results on different replicas unless the middleware rewrites them.  To make
that reproducible, every engine owns a :class:`FunctionEnvironment` whose
clock and RNG are *per-engine* — two replicas evaluating ``RAND()`` will
genuinely diverge unless the middleware intervenes.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from .errors import NameError_, TypeError_

# Names the replication middleware must treat as non-deterministic.
NONDETERMINISTIC_FUNCTIONS = frozenset({
    "NOW", "CURRENT_TIMESTAMP", "CURRENT_TIME", "CURRENT_DATE",
    "RAND", "RANDOM", "UUID", "NEXTVAL",
})

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class FunctionEnvironment:
    """Per-engine evaluation environment for scalar functions.

    Attributes:
        clock: returns the engine's current wall time (simulated seconds).
            Distinct replicas may be skewed — pass a shared clock to model
            perfectly synchronized replicas.
        rng: the engine-local random source.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 seed: Optional[int] = None):
        self._clock = clock or (lambda: 0.0)
        self.rng = random.Random(seed)
        self._uuid_counter = 0
        self._uuid_space = self.rng.getrandbits(48)

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def now(self) -> float:
        return float(self._clock())

    def rand(self) -> float:
        return self.rng.random()

    def uuid(self) -> str:
        self._uuid_counter += 1
        return f"{self._uuid_space:012x}-{self._uuid_counter:08d}"


def call_scalar(env: FunctionEnvironment, name: str, args: List[Any],
                session_user: str = "") -> Any:
    """Evaluate scalar function ``name`` over already-evaluated ``args``.
    An argument the function cannot take raises :class:`TypeError_`,
    like an operator's operand, never a bare Python exception."""
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise NameError_(f"unknown function {name}()")
    try:
        return handler(env, args, session_user)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise TypeError_(f"invalid argument to {name}(): {exc}") from exc


def _fn_now(env, args, user):
    return env.now()


def _fn_rand(env, args, user):
    return env.rand()


def _fn_uuid(env, args, user):
    return env.uuid()


def _fn_user(env, args, user):
    return user


def _fn_coalesce(env, args, user):
    for value in args:
        if value is not None:
            return value
    return None


def _fn_nullif(env, args, user):
    _require_args("NULLIF", args, 2)
    return None if args[0] == args[1] else args[0]


def _fn_upper(env, args, user):
    _require_args("UPPER", args, 1)
    return None if args[0] is None else str(args[0]).upper()


def _fn_lower(env, args, user):
    _require_args("LOWER", args, 1)
    return None if args[0] is None else str(args[0]).lower()


def _fn_length(env, args, user):
    _require_args("LENGTH", args, 1)
    return None if args[0] is None else len(str(args[0]))


def _fn_substr(env, args, user):
    if len(args) not in (2, 3):
        raise TypeError_("SUBSTR takes 2 or 3 arguments")
    value = args[0]
    if value is None:
        return None
    start = int(args[1]) - 1  # SQL is 1-based
    if start < 0:
        start = 0
    if len(args) == 3:
        return str(value)[start:start + int(args[2])]
    return str(value)[start:]


def _fn_concat(env, args, user):
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


def _fn_abs(env, args, user):
    _require_args("ABS", args, 1)
    return None if args[0] is None else abs(args[0])


def _fn_mod(env, args, user):
    _require_args("MOD", args, 2)
    if args[0] is None or args[1] is None or args[1] == 0:
        return None     # by zero: NULL, like the % operator
    return args[0] % args[1]


def _fn_floor(env, args, user):
    _require_args("FLOOR", args, 1)
    import math
    return None if args[0] is None else math.floor(args[0])


def _fn_ceil(env, args, user):
    _require_args("CEIL", args, 1)
    import math
    return None if args[0] is None else math.ceil(args[0])


def _fn_round(env, args, user):
    if len(args) == 1:
        return None if args[0] is None else round(args[0])
    _require_args("ROUND", args, 2)
    return None if args[0] is None else round(args[0], int(args[1]))


def _fn_greatest(env, args, user):
    if not args or any(a is None for a in args):
        return None
    return max(args)


def _fn_least(env, args, user):
    if not args or any(a is None for a in args):
        return None
    return min(args)


def _require_args(name: str, args: List[Any], count: int) -> None:
    if len(args) != count:
        raise TypeError_(f"{name} takes {count} argument(s), got {len(args)}")


_SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "NOW": _fn_now,
    "CURRENT_TIMESTAMP": _fn_now,
    "CURRENT_TIME": _fn_now,
    "CURRENT_DATE": _fn_now,
    "RAND": _fn_rand,
    "RANDOM": _fn_rand,
    "UUID": _fn_uuid,
    "USER": _fn_user,
    "CURRENT_USER": _fn_user,
    "COALESCE": _fn_coalesce,
    "NULLIF": _fn_nullif,
    "UPPER": _fn_upper,
    "LOWER": _fn_lower,
    "LENGTH": _fn_length,
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "CONCAT": _fn_concat,
    "ABS": _fn_abs,
    "MOD": _fn_mod,
    "FLOOR": _fn_floor,
    "CEIL": _fn_ceil,
    "CEILING": _fn_ceil,
    "ROUND": _fn_round,
    "GREATEST": _fn_greatest,
    "LEAST": _fn_least,
}


def is_scalar_function(name: str) -> bool:
    return name in _SCALAR_FUNCTIONS or name in ("NEXTVAL", "CURRVAL", "SETVAL")

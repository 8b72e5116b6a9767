"""Compiled generating extensions (the PGG path, after Thiemann [59]).

:func:`compile_generating_extension` translates an annotated program into a
*generating extension*: the syntactic dispatch over Annotated Core Scheme
is performed **once**, at translation time, producing a tree of composed
Python closures.  Running the extension on static input then executes only
the staged actions — no AST traversal remains.  This mirrors the paper's
PGG [59] ("Cogen in six lines"): a compiler from annotated programs to
program generators, as opposed to interpreting annotations at each
specialization (which is what :mod:`repro.pe.specializer` does).

The generated extension is parameterized over the same residual-code
backend as the specializer, so it can produce source *or* object code —
composing the cogen path with the fused backend realizes §9's outlook of
making generating extensions that directly emit object code.

The test suite checks extension ≡ specializer (identical residual
programs modulo fresh names, same results).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from repro.lang.ast import (
    App,
    Const,
    DApp,
    DIf,
    DLam,
    DPrim,
    Expr,
    If,
    Lam,
    Let,
    Lift,
    MemoCall,
    Prim,
    Var,
)
from repro.lang.gensym import Gensym
from repro.lang.prims import PRIMITIVES, PrimSpec
from repro.interp import PrimProcedure
from repro.obs import traced
from repro.pe.annprog import AnnDef, AnnotatedProgram, BindingTime
from repro.pe.backend import Backend, ResidualProgram, SourceBackend
from repro.pe.errors import BindingTimeError, BudgetExceeded, SpecializationError
from repro.pe.limits import ensure_recursion_limit
from repro.pe.residual_cache import ResidualCache
from repro.pe.values import (
    Dynamic,
    FreezeCache,
    Static,
    freeze_static,
    is_first_order,
)
from repro.runtime.errors import SchemeError
from repro.runtime.values import datum_to_value, is_truthy
from repro.sexp.datum import Symbol

S = BindingTime.STATIC
D = BindingTime.DYNAMIC

# A compiled expression: (environment, runtime, continuation) -> body code.
GenCode = Callable[[dict, "_Runtime", Callable], Any]


class _Runtime:
    """The per-specialization state of a running generating extension."""

    __slots__ = (
        "backend",
        "gensym",
        "name_gensym",
        "memo",
        "pending",
        "max_residual_defs",
        "residual_def_count",
        "freeze_cache",
        "max_unfold_depth",
        "max_residual_size",
        "residual_size",
        "unfold_stack",
        "draining",
    )

    def __init__(
        self,
        backend: Backend,
        max_residual_defs: int,
        name_gensym: Gensym,
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ):
        self.backend = backend
        self.gensym = Gensym("y")
        self.name_gensym = name_gensym
        self.memo: dict[tuple, tuple[Symbol, tuple[Symbol, ...]]] = {}
        self.pending: deque = deque()
        self.max_residual_defs = max_residual_defs
        self.residual_def_count = 0
        self.freeze_cache = FreezeCache()
        # Same runtime backstop as the interpretive specializer.
        self.max_unfold_depth = max_unfold_depth
        self.max_residual_size = max_residual_size
        self.residual_size = 0
        self.unfold_stack: list[str] = []
        self.draining: Symbol | None = None

    def charge(self, n: int = 1) -> None:
        self.residual_size += n
        if self.residual_size > self.max_residual_size:
            raise BudgetExceeded(
                "max_residual_size",
                self.max_residual_size,
                cycle=self.repeating_cycle(),
            )

    def repeating_cycle(self) -> tuple[str, ...]:
        stack = self.unfold_stack
        if not stack:
            if self.draining is not None:
                return (str(self.draining),)
            return ()
        top = stack[-1]
        for i in range(len(stack) - 2, -1, -1):
            if stack[i] == top:
                return tuple(stack[i:][:32])
        return (top,)


class _TailCont:
    """Return continuation of a residual body (shares the specializer's
    tail-position discipline)."""

    __slots__ = ("rt",)

    def __init__(self, rt: _Runtime):
        self.rt = rt

    def __call__(self, value: Any) -> Any:
        return self.rt.backend.ret(_triv(self.rt, value))


class GenClosure:
    """A static closure of the generating extension: a *compiled* body."""

    __slots__ = ("params", "code", "env", "name")

    def __init__(self, params, code, env, name="lambda"):
        self.params = params
        self.code = code
        self.env = env
        self.name = name


def _triv(rt: _Runtime, value: Any) -> Any:
    if isinstance(value, Dynamic):
        return value.code
    v = value.value
    if isinstance(v, GenClosure):
        raise BindingTimeError(
            "cannot lift a static closure to code (generating extension)"
        )
    if isinstance(v, (PrimSpec, PrimProcedure)):
        name = v.spec.name if isinstance(v, PrimProcedure) else v.name
        return rt.backend.global_ref(name)
    if not is_first_order(v):
        raise BindingTimeError(f"cannot lift value {v!r} to code")
    return rt.backend.const(v)


def _insert_let(rt: _Runtime, serious: Any, k: Callable) -> Any:
    rt.charge()
    if isinstance(k, _TailCont):
        return rt.backend.tail(serious)
    fresh = rt.gensym.fresh("t")
    return rt.backend.let(
        fresh, serious, k(Dynamic(rt.backend.var(fresh)))
    )


class CompiledGeneratingExtension:
    """An annotated program compiled to a generating extension.

    ``cache_size`` bounds an optional cross-invocation residual-code
    cache (see :mod:`repro.pe.residual_cache`); ``generate`` consults it
    only when asked (``use_cache=True``), so timing-sensitive callers
    keep measuring real generation by default.
    """

    def __init__(self, annotated: AnnotatedProgram, cache_size: int = 128):
        self.annotated = annotated
        self.cache = ResidualCache(cache_size)
        self._defs: dict[Symbol, tuple[AnnDef, GenCode]] = {}
        for d in annotated.defs:
            self._defs[d.name] = (d, self._comp(d.body))

    # -- running the extension --------------------------------------------------

    def generate(
        self,
        static_args: Sequence[Any],
        backend: Backend | None = None,
        max_residual_defs: int = 10_000,
        name_gensym: Gensym | None = None,
        use_cache: bool = False,
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ) -> ResidualProgram:
        """Map static input to a residual program.

        With ``use_cache=True`` the result is served from (and stored
        into) the extension's residual-code cache, keyed by the frozen
        static arguments and the backend kind; the ``backend`` argument
        then only determines the key's kind on a hit.
        """
        if use_cache and self.cache.maxsize > 0:
            kind = getattr(backend, "kind", None) or (
                "source" if backend is None else type(backend).__name__
            )
            key = (
                tuple(freeze_static(a) for a in static_args),
                "duplicate",  # the cogen path always duplicates (Fig. 3)
                kind,
            )
            result, hit = self.cache.get_or_generate(
                key,
                lambda: self._generate(
                    static_args,
                    backend,
                    max_residual_defs,
                    name_gensym,
                    max_unfold_depth,
                    max_residual_size,
                ),
            )
            # The cached residual program is shared by every caller that
            # hits this key; per-call facts go on a shallow view, never
            # into the shared stats dict (same contract as
            # GeneratingExtension._generate).
            return result.with_call_stats(
                cache_hit=hit, cache=self.cache.stats()
            )
        return self._generate(
            static_args,
            backend,
            max_residual_defs,
            name_gensym,
            max_unfold_depth,
            max_residual_size,
        )

    @traced("pe.cogen.generate")
    def _generate(
        self,
        static_args: Sequence[Any],
        backend: Backend | None = None,
        max_residual_defs: int = 10_000,
        name_gensym: Gensym | None = None,
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ) -> ResidualProgram:
        backend = backend if backend is not None else SourceBackend()
        from repro.pe.specializer import Specializer

        rt = _Runtime(
            backend,
            max_residual_defs,
            name_gensym or Specializer._shared_names,
            max_unfold_depth=max_unfold_depth,
            max_residual_size=max_residual_size,
        )
        goal, _ = self._defs[self.annotated.goal]
        statics = list(static_args)
        if len(statics) != len(goal.static_params()):
            raise SpecializationError(
                f"goal {goal.name} expects {len(goal.static_params())}"
                f" static arguments, got {len(statics)}"
            )
        args: list[Any] = []
        it = iter(statics)
        for bt, p in zip(goal.bts, goal.params):
            if bt is S:
                args.append(Static(next(it)))
            else:
                args.append(Dynamic(backend.var(p)))
        # One-time process-wide floor; never restored (see pe.limits).
        ensure_recursion_limit()
        try:
            residual_goal, dyn_params = self._memoize(rt, goal, args)
            self._drain(rt)
        except RecursionError:
            import sys

            raise BudgetExceeded(
                "python-recursion-limit",
                sys.getrecursionlimit(),
                cycle=rt.repeating_cycle(),
            ) from None
        result = backend.finish(residual_goal, dyn_params)
        result.stats["residual_defs"] = rt.residual_def_count
        result.stats["residual_size"] = rt.residual_size
        return result

    __call__ = generate

    # -- memoization ----------------------------------------------------------------

    def _memoize(self, rt: _Runtime, d: AnnDef, args: list) -> tuple:
        static_key = []
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                if not isinstance(a, Static):
                    raise BindingTimeError(
                        f"{d.name}: static parameter {p} received dynamic"
                        " value"
                    )
                static_key.append(_freeze(a.value, rt.freeze_cache))
        key = (d.name, tuple(static_key))
        hit = rt.memo.get(key)
        if hit is not None:
            return hit
        residual_name = rt.name_gensym.fresh(d.name)
        dyn_params = tuple(rt.gensym.fresh(p) for p in d.dynamic_params())
        rt.memo[key] = (residual_name, dyn_params)
        env: dict[Symbol, Any] = {}
        dyn_iter = iter(dyn_params)
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                env[p] = a
            else:
                env[p] = Dynamic(rt.backend.var(next(dyn_iter)))
        rt.pending.append((residual_name, dyn_params, d, env))
        return rt.memo[key]

    def _drain(self, rt: _Runtime) -> None:
        while rt.pending:
            residual_name, dyn_params, d, env = rt.pending.popleft()
            rt.draining = d.name
            rt.residual_def_count += 1
            if rt.residual_def_count > rt.max_residual_defs:
                raise BudgetExceeded(
                    "max_residual_defs",
                    rt.max_residual_defs,
                    cycle=rt.repeating_cycle(),
                )
            rt.charge()
            _, code = self._defs[d.name]
            body = code(env, rt, _TailCont(rt))
            rt.backend.define(residual_name, dyn_params, body)

    # -- the compiler: ACS -> composed closures ------------------------------------

    def _comp(self, e: Expr) -> GenCode:
        if isinstance(e, Const):
            value = Static(datum_to_value(e.value))
            return lambda env, rt, k: k(value)

        if isinstance(e, Var):
            name = e.name
            if self.annotated.has(name):
                d = self.annotated.lookup(name)
                code = None

                def def_ref(env, rt, k, d=d):
                    nonlocal code
                    if code is None:
                        _, code = self._defs[d.name]
                    return k(Static(GenClosure(d.params, code, {}, d.name.name)))

                return def_ref
            spec = PRIMITIVES.get(name)
            if spec is not None:
                prim_value = Static(PrimProcedure(spec))

                def var_or_prim(env, rt, k):
                    hit = env.get(name)
                    return k(hit if hit is not None else prim_value)

                return var_or_prim

            def var_ref(env, rt, k):
                try:
                    return k(env[name])
                except KeyError:
                    raise SpecializationError(
                        f"unbound variable at generation: {name}"
                    ) from None

            return var_ref

        if isinstance(e, Lam):
            params, body_code = e.params, self._comp(e.body)
            return lambda env, rt, k: k(
                Static(GenClosure(params, body_code, dict(env)))
            )

        if isinstance(e, Lift):
            inner = self._comp(e.expr)
            return lambda env, rt, k: inner(
                env, rt, lambda v: k(Dynamic(_triv(rt, v)))
            )

        if isinstance(e, Let):
            var, rhs, body = e.var, self._comp(e.rhs), self._comp(e.body)

            def let_code(env, rt, k):
                return rhs(
                    env, rt, lambda v: body({**env, var: v}, rt, k)
                )

            return let_code

        if isinstance(e, If):
            test = self._comp(e.test)
            then, alt = self._comp(e.then), self._comp(e.alt)

            def if_code(env, rt, k):
                def branch(v):
                    if not isinstance(v, Static):
                        raise BindingTimeError(
                            "dynamic test in static conditional"
                        )
                    chosen = then if is_truthy(v.value) else alt
                    return chosen(env, rt, k)

                return test(env, rt, branch)

            return if_code

        if isinstance(e, DIf):
            test = self._comp(e.test)
            then, alt = self._comp(e.then), self._comp(e.alt)

            def dif_code(env, rt, k):
                def emit(v):
                    rt.charge()
                    return rt.backend.if_(
                        _triv(rt, v), then(env, rt, k), alt(env, rt, k)
                    )

                return test(env, rt, emit)

            return dif_code

        if isinstance(e, Prim):
            spec = PRIMITIVES.get(e.op)
            if spec is None:
                raise SpecializationError(f"unknown primitive {e.op}")
            arg_codes = [self._comp(a) for a in e.args]
            apply_ = spec.apply
            op = e.op

            def prim_code(env, rt, k):
                def finish(vals):
                    args = []
                    for v in vals:
                        if not isinstance(v, Static):
                            raise BindingTimeError(
                                f"dynamic argument to static primitive {op}"
                            )
                        args.append(v.value)
                    try:
                        return k(Static(apply_(args)))
                    except SchemeError as exc:
                        raise SpecializationError(
                            f"generation-time error in ({op} ...): {exc}"
                        ) from exc

                return _seq(arg_codes, env, rt, finish)

            return prim_code

        if isinstance(e, DPrim):
            op = e.op
            arg_codes = [self._comp(a) for a in e.args]

            def dprim_code(env, rt, k):
                def finish(vals):
                    serious = rt.backend.prim(
                        op, [_triv(rt, v) for v in vals]
                    )
                    return _insert_let(rt, serious, k)

                return _seq(arg_codes, env, rt, finish)

            return dprim_code

        if isinstance(e, DLam):
            params = e.params
            body_code = self._comp(e.body)

            def dlam_code(env, rt, k):
                rt.charge()
                fresh = tuple(rt.gensym.fresh(p) for p in params)
                inner = dict(env)
                for p, f in zip(params, fresh):
                    inner[p] = Dynamic(rt.backend.var(f))
                body = body_code(inner, rt, _TailCont(rt))
                return k(Dynamic(rt.backend.lam(fresh, body)))

            return dlam_code

        if isinstance(e, App):
            fn_code = self._comp(e.fn)
            arg_codes = [self._comp(a) for a in e.args]

            def app_code(env, rt, k):
                def finish(vals):
                    fn, args = vals[0], vals[1:]
                    if isinstance(fn, Static) and isinstance(
                        fn.value, GenClosure
                    ):
                        clo = fn.value
                        if len(args) != len(clo.params):
                            raise SpecializationError(
                                f"{clo.name}: arity mismatch during"
                                " unfolding"
                            )
                        inner = dict(clo.env)
                        inner.update(zip(clo.params, args))
                        rt.unfold_stack.append(clo.name)
                        if len(rt.unfold_stack) > rt.max_unfold_depth:
                            raise BudgetExceeded(
                                "max_unfold_depth",
                                rt.max_unfold_depth,
                                cycle=rt.repeating_cycle(),
                            )
                        try:
                            return clo.code(inner, rt, k)
                        finally:
                            rt.unfold_stack.pop()
                    if isinstance(fn, Static) and isinstance(
                        fn.value, (PrimSpec, PrimProcedure)
                    ):
                        spec = (
                            fn.value.spec
                            if isinstance(fn.value, PrimProcedure)
                            else fn.value
                        )
                        if spec.pure and all(
                            isinstance(a, Static) for a in args
                        ):
                            try:
                                return k(
                                    Static(
                                        spec.apply([a.value for a in args])
                                    )
                                )
                            except SchemeError as exc:
                                raise SpecializationError(
                                    f"generation-time error in"
                                    f" ({spec.name} ...): {exc}"
                                ) from exc
                        serious = rt.backend.prim(
                            spec.name, [_triv(rt, a) for a in args]
                        )
                        return _insert_let(rt, serious, k)
                    raise BindingTimeError(
                        "application of a non-closure in a static"
                        " application"
                    )

                return _seq([fn_code, *arg_codes], env, rt, finish)

            return app_code

        if isinstance(e, DApp):
            fn_code = self._comp(e.fn)
            arg_codes = [self._comp(a) for a in e.args]

            def dapp_code(env, rt, k):
                def finish(vals):
                    serious = rt.backend.call(
                        _triv(rt, vals[0]), [_triv(rt, v) for v in vals[1:]]
                    )
                    return _insert_let(rt, serious, k)

                return _seq([fn_code, *arg_codes], env, rt, finish)

            return dapp_code

        if isinstance(e, MemoCall):
            callee = self.annotated.lookup(e.name)
            arg_codes = [self._comp(a) for a in e.args]
            dyn_positions = [i for i, bt in enumerate(callee.bts) if bt is D]

            def memo_code(env, rt, k):
                def finish(vals):
                    residual_name, _ = self._memoize(rt, callee, vals)
                    dyn_args = [_triv(rt, vals[i]) for i in dyn_positions]
                    serious = rt.backend.call(
                        rt.backend.global_ref(residual_name), dyn_args
                    )
                    return _insert_let(rt, serious, k)

                return _seq(arg_codes, env, rt, finish)

            return memo_code

        raise SpecializationError(
            f"cogen cannot compile {type(e).__name__}"
        )


def _seq(codes: list, env: dict, rt: _Runtime, k: Callable) -> Any:
    """Run compiled argument codes left to right, collecting values."""
    return _seq_from(codes, 0, [], env, rt, k)


def _seq_from(
    codes: list, i: int, acc: list, env: dict, rt: _Runtime, k: Callable
) -> Any:
    # Not a self-referencing local closure: that would be a reference
    # cycle, leaving every chained continuation to the cyclic GC.
    if i == len(codes):
        return k(acc)
    return codes[i](
        env, rt, lambda v: _seq_from(codes, i + 1, acc + [v], env, rt, k)
    )


def _freeze(value: Any, cache: FreezeCache) -> Any:
    if isinstance(value, GenClosure):
        return ("closure", id(value))
    return cache.freeze(value)


@traced("pe.cogen.compile")
def compile_generating_extension(
    annotated: AnnotatedProgram, cache_size: int = 128
) -> CompiledGeneratingExtension:
    """Compile an annotated program into a generating extension."""
    return CompiledGeneratingExtension(annotated, cache_size=cache_size)

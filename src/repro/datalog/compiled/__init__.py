"""Compiled evaluation core: interning, indexed joins, rule plans.

The generic engines evaluate rules by substitution over Python fact
sets; the constant factors (dict-of-string keys, binding dictionaries,
generator chains) swamp the paper's asymptotics on the larger
experiments.  Givan & McAllester's locality argument (PAPERS.md) says
every derivation step only needs an indexed lookup, so this package
compiles the hot path:

* :class:`~repro.datalog.compiled.symbols.SymbolTable` interns
  constants and temporal terms to dense ints;
* :class:`~repro.datalog.compiled.store.CompiledStore` keeps relations
  as tuples of ints with eager per-(predicate, argument-position) hash
  indexes;
* :mod:`~repro.datalog.compiled.plans` compiles each rule once into a
  specialized join plan (ordered atom sequence + index probes +
  projection closure, rendered to Python and ``exec``-ed);
* :func:`~repro.datalog.compiled.engine.compiled_fixpoint` replays the
  plans in the same semi-naive loop as
  :func:`repro.temporal.operator.fixpoint`, with identical
  stats/metrics/provenance semantics (trace events included: they
  are written through the stats' tracer).
"""

from .engine import compile_program, compiled_fixpoint
from .plans import CompileError, JoinPlan, ProbeStep
from .store import CompiledStore
from .symbols import SymbolTable

__all__ = [
    "SymbolTable", "CompiledStore", "JoinPlan", "ProbeStep",
    "CompileError", "compile_program", "compiled_fixpoint",
]

"""The initial rule pack: the repo's real determinism invariants.

Importing this package registers every built-in rule with the engine's
registry (mirroring how :mod:`repro.attacks.registry` and
:mod:`repro.defense.registry` fill their registries at import time — and
for the same reason: every consumer, including subprocesses, sees the
same rule set by importing one module).

The rules, and the invariant each one guards:

- ``no-global-rng`` (:mod:`.rng`): every random draw is seeded and
  explicit — hidden global RNG state breaks serial/parallel/resumed
  byte-identity.
- ``no-raw-write`` (:mod:`.io`): library writes are atomic — a torn
  half-write would poison resumable stores and golden files.
- ``no-wallclock`` (:mod:`.wallclock`): cell execution and fingerprints
  never read the wall clock — a timestamp in a result or a key makes two
  identical runs differ.
- ``no-sim-wallclock`` (:mod:`.sim_wallclock`): the federation stack
  (``repro/fl``) derives all timing from the virtual clock — ``time`` /
  ``datetime`` are banned there outright, ``perf_counter`` included,
  where the general rule would allow interval timing.
- ``sorted-iteration`` (:mod:`.ordering`): unordered collections (sets,
  ``dict.keys()`` views, directory listings) are sorted before anything
  order-sensitive consumes them.
- ``picklable-entry`` (:mod:`.pickling`): callables crossing process
  boundaries are module-level, so parallel executors work under every
  start method.
- ``no-allocating-accumulate`` (:mod:`.accumulate`): gradient
  accumulation under ``src/repro/tensor`` stays in place (pooled
  buffers, ``out=``) — ``x.grad = x.grad + g`` churn is a silent perf
  regression the benchmarks would only catch at their gate.

Add-a-rule recipe: see EXPERIMENTS.md ("Register an entry").
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    accumulate,
    io,
    ordering,
    pickling,
    rng,
    sim_wallclock,
    wallclock,
)

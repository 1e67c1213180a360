"""End-to-end, layer-attributed benchmark of the ``deeprh`` CLI and service.

``perfbench/run.py`` is the entry point; this package holds its parts:

- :mod:`drhbench.stats` — medians and nearest-rank percentiles;
- :mod:`drhbench.procs` — spawning the program in its own process group
  with a timeout, peak-RSS accounting and the shm/arena leak guard;
- :mod:`drhbench.spans` — the in-memory span recorder used by the traced
  launcher, and the self-time / coverage arithmetic over its output;
- :mod:`drhbench.layers` — which public functions of each layer the traced
  launcher wraps, and how spans become per-layer metrics;
- :mod:`drhbench.checks` — output checks against in-process references and
  pinned digests;
- :mod:`drhbench.serveclient` — a single-threaded closed-loop NDJSON client;
- :mod:`drhbench.workloads` — the workload generator and the three workloads.
"""

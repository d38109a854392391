"""The repository's benchmark: four closed-loop workloads over ``repro``.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  See ``perfbench/README.md``
for the workloads, the metrics and which layer should move which
end-to-end number.
"""

"""macrobench: one five-workload end-to-end benchmark of the ``repro`` stack.

Drives only public ``repro.*`` APIs, measures every layer from outside by
timing the calls into its public functions, and touches no file outside
this directory and ``BENCHMARK.json``.  See ``README.md``.
"""

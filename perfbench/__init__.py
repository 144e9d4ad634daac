"""Benchmark harness for the adagram package.

It drives the package only through ``adagram.cli.main`` and keeps its
timing shims, inputs, checks and reference values in this directory.
See README.md for the workloads and metrics.
"""

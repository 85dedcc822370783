"""Benchmark for demapsim: workloads, output checks and span tracing."""

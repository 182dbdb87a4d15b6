"""The execution-mode matrix; a package, so its conftest cannot shadow
the ``conftest`` module the benchmarks import."""

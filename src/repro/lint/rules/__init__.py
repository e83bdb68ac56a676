"""Built-in rule families; importing this package registers them all."""

from repro.lint.rules import dependencies, determinism, parity_rule, registry_docs, units

__all__ = ["dependencies", "determinism", "parity_rule", "registry_docs", "units"]

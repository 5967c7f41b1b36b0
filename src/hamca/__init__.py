"""Exact simulator and verification suite for integer-valued Hamiltonian
cellular automata: two-step Gaussian-integer dynamics, its conservation
laws, the bandlimited continuum bridge, and many-clock composites.

Import names from their modules (`from hamca.automaton import evolve`);
only `hamca.sampling` loads numpy."""

__version__ = "0.1.0"

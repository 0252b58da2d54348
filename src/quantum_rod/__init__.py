"""Quantum mechanics of a rod balanced on its edge.

The package answers one question in several complementary ways: how
long does a perfectly balanced rigid rod stay upright once quantum
uncertainty is taken into account?  The modules split the problem into
unit handling, the exact grid spectrum of the pendulum-on-a-wall
Hamiltonian, semiclassical (WKB) approximations with their barrier-top
refinement, the Airy limit of a linear well, wavepacket dynamics with
fall-time estimates, and the response of near-degenerate doublets to a
tilted table.  Each name is imported from its module, such as
`quantum_rod.spectrum.solve_spectrum`; the package root holds only
`__version__`.
"""

__version__ = "0.1.0"

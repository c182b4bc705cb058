"""CODATA 2018 values that only the tests read: the package states every phase
through v * lambda and needs neither."""

import math

HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J*s: h, exact by SI definition, over 2 pi

# Particle masses, kg.
PARTICLE_MASSES_KG = {
    "electron": 9.1093837015e-31,
    "proton": 1.67262192369e-27,
    "neutron": 1.67492749804e-27,
}

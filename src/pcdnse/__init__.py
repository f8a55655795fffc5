"""Dissipative soliton dynamics in reservoir-engineered bosonic lattices.

The package models a chain of classical anharmonic oscillators whose
auxiliary driven cavities act as an engineered reservoir.  It provides the
microscopic cavity-chain equations, the reduced lattice dynamics after
cavity elimination, their continuum limit (a particle-conserving
dissipative nonlinear Schrodinger equation), a collective-coordinate
reduction for bright solitons, and the estimators and command-line tools
used to compare all of these against each other.

Each name is imported from the module that defines it, such as
``pcdnse.params`` or ``pcdnse.collective``; importing the package loads
none of them.
"""

__version__ = "0.1.0"

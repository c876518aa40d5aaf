"""Step-size schedules, recursion bounds, and rate experiments for gradient
methods under gradient domination.

The package splits into schedule definitions (schedules), affine recursion
machinery (recursions), closed-form method bounds for every schedule family
(plbounds), reference optimizers on synthetic problems with verifiable
assumptions (optimizers), empirical plus theoretical rate maps (rates),
and every numeric check behind the paper's claims with the suites that
group them (verify), each suite returning a SuiteReport. A thin
command-line driver over them lives in steprates.cli and runs as
`python -m steprates`. Each public name is imported from its own module;
the package itself holds only __version__.
"""

__version__ = "0.1.0"

"""Anti-concentration of random signed products in finite groups.

Computes the maximum point probability of products ∏_i A_i^{±1} (each sign
fair and independent) three independent ways -- exact big-integer convolution,
a character-theoretic trace formula, and seeded Monte Carlo -- and ships the
supporting machinery: group enumeration, Dixon character tables, explicit
unitary irreducibles, singular-value inequalities, and order-preserving
reductions of rational matrix groups modulo a prime.

The package re-exports nothing: import the submodule that holds a name
(`signedwalk.groups`, `signedwalk.walk`, `signedwalk.chartable`, ...), so that
a program, and each CLI subcommand, loads only the engines it runs.
"""

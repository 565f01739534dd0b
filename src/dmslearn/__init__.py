"""Decentralized learning over switching communication topologies.

Agents run local gradient steps and mix parameters with whoever the
current round's graph connects them to; the graph is redrawn each round
from a small pool of subset substructures. Includes a Shamir-based
secure aggregation layer, threat experiments (poisoning, gradient
inversion), and a synthetic smart-meter forecasting task.

Import names from their modules; the package root binds none.
"""

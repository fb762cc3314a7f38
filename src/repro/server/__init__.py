"""Server substrate: platforms, power models, RAPL, sensors, Turbo Boost.

Reproduces the server-level machinery the paper's agents rely on:
power-vs-utilization curves for the 2011 Westmere and 2015 Haswell web
servers (Figure 1), the RAPL power-limiting module with its ~2 s settling
dynamics (Figure 9), on-board power sensors (present on 2011+ servers),
and the CPU-utilization power estimation model used when sensors are
absent.
"""

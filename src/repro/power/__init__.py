"""Power delivery substrate: devices, breakers, and datacenter topology.

Models the Open Compute Project power hierarchy the paper describes
(Figure 2): Utility 30 MW -> MSB 2.5 MW -> SB 1.25 MW -> RPP 190 KW ->
Rack 12.6 KW -> servers, with a circuit breaker at every level whose trip
time follows the inverse-time curves of Figure 3.  Per physics step
the whole forest is evaluated through a compiled
:class:`~repro.power.table.DeviceTable`, bit-identical to the recursive
per-device definitions.
"""

"""Service workload substrate.

Synthetic-but-faithful workload models for the six Facebook services the
paper characterizes (Figure 6): web, cache, hadoop, database, news feed,
and f4/photo storage.  Each model combines a base traffic shape (diurnal
for user-facing services), an Ornstein-Uhlenbeck noise process, and
service-specific burst behaviour, with parameters tuned so the 60 s-window
power-variation ordering matches the paper: f4 storage has the lowest
median but highest tail variation; news feed and web have the highest
medians; cache is the steadiest overall.
"""

"""Repository benchmark: three closed-loop workloads and a layer trace."""

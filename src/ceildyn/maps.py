"""Empty module, kept only because bench/run.py imports ceildyn.maps.

No ceildyn module needs it; the file goes once the benchmark drops that
import.
"""

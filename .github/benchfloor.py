"""Floor check for a -benchout self-check report (the par.Report schema).

usage: python3 .github/benchfloor.py REPORT FLOOR [fit-wall]

Fails unless the serial and parallel legs produced identical output and the
speedup reaches FLOOR. By default the speedup is the report's own
serial/parallel ratio. With fit-wall it is the serial leg's summed fit wall
time (the fits alone, back to back) over the parallel leg's elapsed time,
as mpicolltune reports it.
"""
import json
import sys

path, floor = sys.argv[1], float(sys.argv[2])
r = json.load(open(path))
if sys.argv[3:] == ["fit-wall"]:
    speedup = r["serial"]["detail"]["fit_wall_seconds"] / r["parallel"]["seconds"]
else:
    speedup = r["speedup"]
if not r["identical"]:
    sys.exit("%s: %s parallel output differs from serial output" % (path, r["tool"]))
if speedup < floor:
    sys.exit("%s: %s speedup %.2fx is below the %.2fx floor" % (path, r["tool"], speedup, floor))
print("%s: %.2fx speedup at %d workers, identical output" % (r["tool"], speedup, r["workers"]))

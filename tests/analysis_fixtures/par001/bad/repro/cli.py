def main(argv):
    hot_bench = "hot-loop"  # bench.py says spin-loop
    return hot_bench

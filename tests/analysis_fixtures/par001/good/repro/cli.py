def main(argv):
    hot_bench = "hot-loop"
    return hot_bench

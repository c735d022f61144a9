module sasgd/bench

go 1.22

require sasgd v0.0.0

replace sasgd => ../

module streamrel/bench

go 1.22

require streamrel v0.0.0

replace streamrel => ../

module upcxx/benchmark

go 1.24

require upcxx v0.0.0

replace upcxx => ../

module tinca/benchmark

go 1.22

require tinca v0.0.0

replace tinca => ../

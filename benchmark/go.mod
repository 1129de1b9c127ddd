module kalis/benchmark

go 1.22

require kalis v0.0.0

replace kalis => ../

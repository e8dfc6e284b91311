module portal/benchmark

go 1.22

require portal v0.0.0

replace portal => ../

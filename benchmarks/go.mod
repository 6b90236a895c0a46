module hotcalls/benchmarks

go 1.22

require hotcalls v0.0.0

replace hotcalls => ../

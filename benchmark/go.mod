module tierbase/benchmark

go 1.24

require tierbase v0.0.0

replace tierbase => ../

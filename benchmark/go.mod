module logan/benchmark

go 1.24

require logan v0.0.0

replace logan => ../

module sheriff/bench

go 1.22

require sheriff v0.0.0

replace sheriff => ../

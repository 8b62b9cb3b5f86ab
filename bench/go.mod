module dpstore/bench

go 1.24

require dpstore v0.0.0

replace dpstore => ../

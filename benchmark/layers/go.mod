module specpmt/benchlayers

go 1.22

require specpmt v0.0.0

replace specpmt => ../..

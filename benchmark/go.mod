module specpmtbench

go 1.22

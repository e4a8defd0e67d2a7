module scfs/scfsbench

go 1.24

require scfs v0.0.0

replace scfs => ../

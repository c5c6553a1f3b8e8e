module eole/bench

go 1.24

require eole v0.0.0

replace eole => ../

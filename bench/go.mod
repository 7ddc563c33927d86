module tapas/bench

go 1.22

require tapas v0.0.0

replace tapas => ../

module seatwin/bench

go 1.22

require seatwin v0.0.0

replace seatwin => ../

module neograph/benchmark

go 1.24

require neograph v0.0.0

replace neograph => ../

# @in early
# @begin pipeline @in x @out y
# @begin Work @in x @out y
y <- transform(x)
# @end Work
# @end pipeline

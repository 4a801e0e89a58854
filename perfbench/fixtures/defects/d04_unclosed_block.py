# @begin pipeline @in x @out y
y = transform(x)

# @begin pipeline @in data_in @out result
staged = data_in
# @begin Work @in data_in @out result
result = compute()
# @end Work
# @end pipeline

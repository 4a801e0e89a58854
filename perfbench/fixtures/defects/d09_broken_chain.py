# @begin pipeline @in raw @out report
# @begin Clean @in raw @out table
table = scrub(raw)
# @end Clean
# @begin Report @in table @in calibration @out report
report = render(table, calibration)
# @end Report
# @end pipeline

# @begin recon @in field @out merged
# @begin Left @in field @out left_part
left_part <- smooth(field)
# @end Left
# @begin Right @in field @in gridded @out right_part
right_part <- sharpen(field, gridded)
# @end Right
# @begin Merge @in left_part @in right_part @out merged
merged <- blend(left_part, right_part)
# @end Merge
# @end recon
